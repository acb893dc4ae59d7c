import hashlib
import json
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from mpinfer.core import (
    CoverageFailure, Dataset, InvalidSize, InvalidSpec, MPConfig, Task,
)
from mpinfer import ensemble
from mpinfer.ensemble import (
    draw_pairs, load_ensemble, patch_array, sample_minipatches, save_ensemble,
    train_ensemble,
)
from mpinfer.learners import (
    ConstantLearner, ConstantModel, LinearModel, RidgeLearner, TreeLearner,
    predict,
)
from mpinfer.loco import estimate_B, infer_all, report_to_json
from mpinfer.rng import generator, spawn_seed, standard_normal


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
        patches = sample_minipatches(9, 7, 4, 3, 25, seed=1)
        # iterating the records reads what the fields hold
        assert np.array_equal(np.stack([p.rows for p in patches]), patches.rows)
        assert np.array_equal(np.stack([p.features for p in patches]), patches.features)
        assert patches.rows.dtype == np.int64 and patches.rows.shape == (25, 4)
        assert patches.features.dtype == np.int64 and patches.features.shape == (25, 3)
        for patch in patches:
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

    @staticmethod
    def assert_same_pass(a, b):
        """The fit pass's stored results are byte-identical."""
        for name in ("sums", "counts", "pair_preds", "obs_mask"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_thread_count_determinism(self, monkeypatch):
        # small fit blocks, so the threads split the patches between them
        monkeypatch.setattr(ensemble, "_FIT_BLOCK_BYTES", 2000)
        ds = toy_dataset(N=40, M=8, seed=3)
        runs = [train_ensemble(ds, MPConfig(n=6, m=3, K=120, seed=21,
                                            learner=TreeLearner(max_depth=4)),
                               threads=t) for t in (1, 4, 8)]
        for other in runs[1:]:
            self.assert_same_pass(runs[0], other)

    def test_ridge_thread_count_determinism(self, monkeypatch):
        # small fit blocks, so the threads split the patches between them
        monkeypatch.setattr(ensemble, "_FIT_BLOCK_BYTES", 2000)
        for task in (Task.REGRESSION, Task.CLASSIFICATION):
            ds = toy_dataset(N=40, M=8, seed=3, task=task)
            runs = [train_ensemble(ds, MPConfig(n=6, m=3, K=120, seed=21,
                                                learner=RidgeLearner()),
                                   threads=t) for t in (1, 3, 8)]
            for other in runs[1:]:
                self.assert_same_pass(runs[0], other)

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
        patches = patch_array([[0]], [[0]])
        with pytest.raises(CoverageFailure):
            train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                           patches=patches)

    def test_uncovered_row_fails_only_when_queried(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        ds = Dataset(X=X, Y=np.array([1.0, 2.0]), task=Task.REGRESSION)
        patches = patch_array([[0]], [[0]])
        ens = train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                             patches=patches, check_coverage=False)
        assert ens.loo_prediction(1)[0] == 1.0  # trained on row 0 only
        with pytest.raises(CoverageFailure):
            ens.loo_prediction(0)

    def test_pair_coverage_failure_names_pair(self):
        ds = toy_dataset(N=6, M=3, seed=4)
        # every patch uses feature 0, so (i, 0) is never jointly excluded
        patches = patch_array([[k % 6] for k in range(6)], [[0]] * 6)
        with pytest.raises(CoverageFailure) as exc:
            train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                           patches=patches)
        assert exc.value.j == 0

    @pytest.mark.parametrize("rows, feats", [
        ([[0, 0], [1, 2], [3, 4]], [[0, 1], [1, 2], [0, 2]]),    # repeated row
        ([[0, 1], [1, 2], [3, 4]], [[0, 1], [2, 2], [0, 2]]),    # repeated feature
        ([[1, 0], [1, 2], [3, 4]], [[0, 1], [1, 2], [0, 2]]),    # unsorted rows
        ([[0, 1], [1, 7], [3, 4]], [[0, 1], [1, 2], [0, 2]]),    # row >= N
        ([[-1, 1], [1, 2], [3, 4]], [[0, 1], [1, 2], [0, 2]]),   # negative row
        ([[0, 1], [1, 2], [3, 4]], [[0, 1], [1, 3], [0, 2]]),    # feature >= M
        ([[0, 1], [1, 2], [3, 4]], [[-1, 1], [1, 2], [0, 2]]),   # negative feature
    ])
    def test_patch_override_indices_validated(self, rows, feats):
        # a repeated row would count a patch as holding a row it misses
        ds = toy_dataset(N=6, M=3, seed=4)
        with pytest.raises(InvalidSize):
            train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                           patches=patch_array(rows, feats), check_coverage=False)


class TestAggregation:
    def test_loo_hand_enumeration(self):
        # patches {1} and {2} with mean-of-rows models: loo(0) = (2+3)/2
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        ds = Dataset(X=X, Y=np.array([1.0, 2.0, 3.0]), task=Task.REGRESSION)
        patches = patch_array([[1], [2]], [[0, 1], [0, 1]])
        with pytest.raises(InvalidSize):
            # m must stay below M; use single-feature patches instead
            train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                           patches=patches)
        patches = patch_array([[1], [2]], [[0], [0]])
        ens = train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                             patches=patches, check_coverage=False)
        assert ens.loo_prediction(0)[0] == pytest.approx(2.5, abs=1e-12)

    def test_single_qualifying_patch_verbatim(self):
        ds = toy_dataset(N=8, M=4, seed=6)
        patches = patch_array([[0, 1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 7]],
                              [[0, 1], [2, 3]])
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


class TestFitPass:
    def test_no_k_by_n_float_array(self):
        # training and inference never hold a (K, N) float array: the
        # traced peak stays below half of one
        gen = generator(1, "pass-memory")
        N, M, K = 1500, 40, 2000
        X = standard_normal(gen, (N, M))
        ds = Dataset(X=X, Y=X[:, 0] + standard_normal(gen, N), task=Task.REGRESSION)
        tracemalloc.start()
        try:
            infer_all(train_ensemble(ds, MPConfig(K=K, seed=4)), bonferroni=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < K * N * 8 / 2

    @pytest.mark.parametrize("task, learner", [
        (Task.REGRESSION, RidgeLearner()),
        (Task.REGRESSION, TreeLearner(max_depth=3)),
        (Task.CLASSIFICATION, TreeLearner(max_depth=3)),
    ], ids=["ridge", "tree", "tree-classification"])
    def test_in_pass_b_hat_equals_estimate_B(self, monkeypatch, task, learner):
        # small fit blocks, so the pairs are gathered across many blocks
        monkeypatch.setattr(ensemble, "_FIT_BLOCK_BYTES", 2000)
        ds = toy_dataset(N=30, M=6, seed=15, task=task)
        config = MPConfig(n=6, m=3, K=80, seed=7, learner=learner)
        ens = train_ensemble(ds, config)
        seed = spawn_seed(config.seed, "estimate-b")
        assert infer_all(ens).b_hat == estimate_B(ens, 10, seed)
        pairs = draw_pairs(ens.obs_mask, 10, seed)
        assert np.array_equal(ens.pair_preds,
                              ens.cache[pairs, np.arange(ds.n_rows)[:, None]])


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
        assert np.array_equal(back.patches.rows, ens.patches.rows)
        assert np.array_equal(back.patches.features, ens.patches.features)
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

    def test_layout_3_refused(self, tmp_path):
        # layout 3 kept the (K, N, d) cache instead of the sums
        ens, path = self._saved(tmp_path)
        with np.load(path) as zf:
            arrays = {name: zf[name] for name in zf.files
                      if name not in ("sums", "counts", "pair_preds")}
        np.savez_compressed(path, cache=ens.cache, **arrays)
        self._edit_header(path, lambda h: h.update(version=3))
        with pytest.raises(InvalidSpec, match="version 3"):
            load_ensemble(path)

    @pytest.mark.parametrize("task, learner", [
        (Task.REGRESSION, RidgeLearner()),
        (Task.CLASSIFICATION, TreeLearner(max_depth=3)),
    ])
    def test_layout_4_round_trip(self, tmp_path, task, learner):
        ds = toy_dataset(N=30, M=6, seed=14, task=task)
        ens = train_ensemble(ds, MPConfig(n=6, m=3, K=80, seed=2, learner=learner))
        path = tmp_path / "snap.npz"
        save_ensemble(ens, path)
        with np.load(path) as zf:
            assert "cache" not in zf.files
        back = load_ensemble(path)
        assert back.loo_all().tobytes() == ens.loo_all().tobytes()
        assert report_to_json(infer_all(back, bonferroni=True)) == \
            report_to_json(infer_all(ens, bonferroni=True))
        for name in ("sums", "counts", "pair_preds"):
            assert getattr(back, name).tobytes() == getattr(ens, name).tobytes()

    def test_layout_4_from_literal_arrays(self, tmp_path):
        # A layout-4 file as a writer of one index list per patch made it:
        # rows (K, n) and feats (K, m) int64 stacked from those lists.
        # Patches {0, 1}, {1, 2}, {2, 3} of constant (mean-of-rows) models
        # holding features 0, 1, 0 predict 1.5, 3 and 6.
        rows, feats = [[0, 1], [1, 2], [2, 3]], [[0], [1], [0]]
        X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
        Y = np.array([1.0, 2.0, 4.0, 8.0])
        header = {
            "version": 4, "task": "regression", "n_classes": 1,
            "feature_names": [], "label_names": [],
            "config": {"n": 2, "m": 1, "K": 3, "seed": 0, "alpha": 0.1,
                       "buffer_c": 1.0, "use_buffer": True,
                       "learner": "ConstantLearner()"},
            "learner": {"name": "ConstantLearner", "params": {}},
            "model": {"name": "ConstantModel", "params": {"n_slots": 1}},
        }
        sums = np.array([[9.0, 3.0, 6.0], [6.0, 0.0, 6.0],
                         [1.5, 0.0, 1.5], [4.5, 3.0, 1.5]])[..., None]
        counts = np.array([[2.0, 1.0, 1.0], [1.0, 0.0, 1.0],
                           [1.0, 0.0, 1.0], [2.0, 1.0, 1.0]])
        path = tmp_path / "layout4.npz"
        np.savez_compressed(
            path, header=np.frombuffer(json.dumps(header).encode("utf8"), dtype=np.uint8),
            X=X, Y=Y, rows=np.stack([np.array(r) for r in rows]),
            feats=np.stack([np.array(f) for f in feats]),
            obs_mask=np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=bool),
            feat_mask=np.array([[1, 0], [0, 1], [1, 0]], dtype=bool),
            sums=sums, counts=counts, model_value=np.array([[1.5], [3.0], [6.0]]))
        back = load_ensemble(path)
        assert back.loo_all().tobytes() == np.array([[4.5], [6.0], [1.5], [2.25]]).tobytes()
        assert back.patches.rows.dtype == back.patches.features.dtype == np.int64
        assert back.patches.rows.tolist() == rows and back.patches.features.tolist() == feats
        # training on the same patches writes the same layout-4 arrays
        ds = Dataset(X=X, Y=Y, task=Task.REGRESSION)
        ens = train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                             patches=patch_array(rows, feats), check_coverage=False)
        assert ens.loo_all().tobytes() == back.loo_all().tobytes()
        save_ensemble(ens, tmp_path / "now.npz")
        with np.load(path) as old, np.load(tmp_path / "now.npz") as now:
            assert sorted(old.files) == sorted(now.files)
            for name in old.files:
                if name != "header":
                    assert old[name].dtype == now[name].dtype, name
                    assert old[name].tobytes() == now[name].tobytes(), name

    def test_round_trip_without_pairs(self, tmp_path):
        # rows that fewer than two patches exclude leave no B-hat pairs
        ds = toy_dataset(N=4, M=3, seed=5)
        patches = patch_array([[0, 1, 2]], [[0]])
        ens = train_ensemble(ds, MPConfig(seed=0, learner=ConstantLearner()),
                             patches=patches, check_coverage=False)
        path = tmp_path / "snap.npz"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        assert ens.pair_preds is None and back.pair_preds is None
        assert np.array_equal(back.loo_prediction(3), ens.loo_prediction(3))

    @pytest.mark.parametrize("name", ["Dataset", "Ensemble", "FittedModel"])
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

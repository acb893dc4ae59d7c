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
    ConstantLearner, ConstantModel, RidgeLearner, TreeLearner, predict,
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


class TestTraining:
    def test_constant_learner_cache(self):
        ds = toy_dataset()
        ens = train_ensemble(ds, MPConfig(n=3, m=2, K=20, seed=5,
                                          learner=ConstantLearner()))
        for k, patch in enumerate(ens.patches):
            want = ds.Y[patch.rows].mean()
            assert np.allclose(ens.cache[k, :, 0], want)

    def test_cache_consistency_exact(self):
        ds = toy_dataset(N=30, M=6, seed=2)
        ens = train_ensemble(ds, MPConfig(n=6, m=3, K=80, seed=9,
                                          learner=RidgeLearner(lam=0.001)))
        gen = generator(0, "cache-check")
        for _ in range(50):
            k = int(gen.integers(0, ens.K))
            i = int(gen.integers(0, ds.n_rows))
            again = predict(ens.models.take(k), ds.X[i, ens.patches[k].features])
            assert np.array_equal(again, ens.cache[k, i])

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

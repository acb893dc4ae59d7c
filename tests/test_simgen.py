import hashlib
import warnings

import numpy as np
import pytest

from mpinfer.cli import main
from mpinfer.core import InvalidSpec, Task
from mpinfer.simgen import (
    SimSpec, _signal, generate, sampler, sidecar_dict, true_beta,
    true_support,
)


class TestSpecValidation:
    def test_linear_needs_ten_features(self):
        with pytest.raises(InvalidSpec):
            SimSpec(model="linear", task="regression", N=50, M=9)

    def test_nonlinear_needs_five(self):
        with pytest.raises(InvalidSpec):
            SimSpec(model="nonlinear", task="regression", N=50, M=4)
        SimSpec(model="nonlinear", task="regression", N=50, M=5)

    def test_rho_only_for_correlated(self):
        with pytest.raises(InvalidSpec):
            SimSpec(model="linear", task="regression", N=50, M=10, rho=0.3)

    def test_rho_bounds(self):
        with pytest.raises(InvalidSpec):
            SimSpec(model="correlated", task="regression", N=50, M=10, rho=1.0)

    def test_non_positive_definite_rejected_at_generation(self):
        spec = SimSpec(model="correlated", task="regression", N=50, M=10,
                       rho=0.95)
        with pytest.raises(InvalidSpec):
            generate(spec)


class TestGenerate:
    def test_reproducible_bytes(self):
        spec = SimSpec(model="linear", task="regression", N=100, M=10,
                       snr=3.0, seed=5)
        a, b = generate(spec), generate(spec)
        assert a.X.tobytes() == b.X.tobytes()
        assert a.Y.tobytes() == b.Y.tobytes()
        c = generate(SimSpec(model="linear", task="regression", N=100, M=10,
                             snr=3.0, seed=6))
        assert a.X.tobytes() != c.X.tobytes()

    @pytest.mark.parametrize("task,digest", [
        ("regression", "eb20e540d7845cdff66785f5a29b948b782d33bbb2125bd61caf07a6b2720608"),
        ("classification", "0149736e89c667d05c3353dacd1b6bd41b664817faf3b524685847d27016999f"),
    ])
    def test_correlated_stream_is_pinned(self, task, digest):
        # recorded from the out-of-place column transform with glibc's libm
        ds = generate(SimSpec(model="correlated", task=task, N=300, M=16,
                              snr=2.0, rho=0.45, seed=11))
        assert hashlib.sha256(ds.X.tobytes() + ds.Y.tobytes()).hexdigest() == digest

    def test_saturated_logistic_warns_nothing(self, tmp_path):
        # snr 2000 drives exp(-f) to inf on some rows; prob is then its limit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--model", "linear", "--task", "classification",
                         "--N", "200", "--M", "20", "--snr", "2000", "--seed", "1",
                         "--out", str(tmp_path / "sim.csv")]) == 0

    def test_null_feature_uncorrelated_with_response(self):
        spec = SimSpec(model="linear", task="regression", N=50_000, M=10,
                       snr=0.0, seed=1)
        ds = generate(spec)
        r = np.corrcoef(ds.X[:, 0], ds.Y)[0, 1]
        assert abs(r) <= 0.015

    def test_adjacent_correlation_matches_rho(self):
        spec = SimSpec(model="correlated", task="regression", N=50_000, M=10,
                       snr=0.0, rho=0.5, seed=2)
        ds = generate(spec)
        for j in (0, 4, 8):
            r = np.corrcoef(ds.X[:, j], ds.X[:, j + 1])[0, 1]
            assert abs(r - 0.5) <= 0.02

    def test_identity_covariance_off_diagonals(self):
        spec = SimSpec(model="linear", task="regression", N=20_000, M=10,
                       snr=0.0, seed=3)
        ds = generate(spec)
        cov = np.cov(ds.X, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 4.0 / np.sqrt(20_000)
        assert np.max(np.abs(np.diag(cov) - 1.0)) <= 4.0 / np.sqrt(20_000)

    def test_unit_marginals_under_correlation(self):
        spec = SimSpec(model="correlated", task="regression", N=50_000, M=12,
                       snr=0.0, rho=0.5, seed=4)
        ds = generate(spec)
        assert np.max(np.abs(ds.X.var(axis=0, ddof=1) - 1.0)) < 0.03

    def test_classification_matches_logistic_probabilities(self):
        spec = SimSpec(model="linear", task="classification", N=100_000, M=10,
                       snr=2.0, seed=5)
        ds = generate(spec)
        f = ds.X @ true_beta(spec)
        prob = 1.0 / (1.0 + np.exp(-f))
        edges = np.quantile(f, np.linspace(0, 1, 11))
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (f >= lo) & (f < hi)
            if mask.sum() < 100:
                continue
            p_hat = ds.Y[mask].mean()
            p_bar = prob[mask].mean()
            tol = 3.0 * np.sqrt(p_bar * (1 - p_bar) / mask.sum()) + 1e-3
            assert abs(p_hat - p_bar) <= tol

    def test_classification_has_two_declared_classes(self):
        spec = SimSpec(model="nonlinear", task="classification", N=200, M=6,
                       snr=1.0, seed=6)
        ds = generate(spec)
        assert ds.task == Task.CLASSIFICATION and ds.n_classes == 2


class TestNonlinearSignal:
    def test_indicator_kills_large_first_feature(self):
        spec = SimSpec(model="nonlinear", task="regression", N=10, M=5,
                       snr=7.0, seed=0)
        X = np.zeros((2, 5))
        X[0, 0] = 3.0   # outside [-2, 2]: no contribution
        X[1, 0] = 1.5   # inside: snr * x1
        f = _signal(spec, X)
        assert f[0] == 0.0
        assert f[1] == pytest.approx(7.0 * 1.5)

    def test_hinge_terms(self):
        spec = SimSpec(model="nonlinear", task="regression", N=10, M=5,
                       snr=0.0, seed=0)
        X = np.zeros((3, 5))
        X[0, 1] = 2.0                    # 5*max(0, x2)
        X[1, 2] = -1.0                   # 5*min(0, x3)
        X[2, 4] = -0.5                   # 5*sign(x5)
        f = _signal(spec, X)
        assert f[0] == pytest.approx(10.0)
        assert f[1] == pytest.approx(-5.0)
        assert f[2] == pytest.approx(-5.0)

    def test_sign_zero_is_zero(self):
        spec = SimSpec(model="nonlinear", task="regression", N=10, M=5,
                       snr=0.0, seed=0)
        assert _signal(spec, np.zeros((1, 5)))[0] == 0.0


class TestMetadata:
    def test_true_beta_layout(self):
        spec = SimSpec(model="linear", task="regression", N=50, M=15, snr=7.0)
        beta = true_beta(spec)
        assert beta[0] == 7.0
        assert np.all(beta[1:10] == 5.0)
        assert np.all(beta[10:] == 0.0)

    def test_support_tracks_snr(self):
        base = dict(model="linear", task="regression", N=50, M=15)
        assert true_support(SimSpec(snr=0.0, **base)) == set(range(1, 10))
        assert true_support(SimSpec(snr=2.0, **base)) == set(range(0, 10))
        nl = dict(model="nonlinear", task="regression", N=50, M=8)
        assert true_support(SimSpec(snr=0.0, **nl)) == {1, 2, 3, 4}
        assert true_support(SimSpec(snr=1.0, **nl)) == {0, 1, 2, 3, 4}

    def test_sampler_draws_fresh(self):
        spec = SimSpec(model="linear", task="regression", N=100, M=10, seed=1)
        draw = sampler(spec)
        a = draw(30, 5)
        b = draw(30, 6)
        assert a.n_rows == 30
        assert a.X.tobytes() != b.X.tobytes()

    def test_sidecar_contents(self):
        spec = SimSpec(model="correlated", task="regression", N=50, M=10,
                       snr=1.0, rho=0.4, seed=9)
        side = sidecar_dict(spec)
        assert side["true_beta"][0] == 1.0
        assert side["true_support"] == sorted(true_support(spec))
        assert side["rho"] == 0.4

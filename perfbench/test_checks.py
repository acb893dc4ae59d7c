"""Tests of the benchmark's own checker.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from workloads import RIDGE_LAMBDA, Workload  # noqa: E402

from mpinfer.bench import run_coverage  # noqa: E402
from mpinfer.conformal import loo_residuals, predict_intervals_batch  # noqa: E402
from mpinfer.core import MPConfig, save_dataset  # noqa: E402
from mpinfer.ensemble import train_ensemble  # noqa: E402
from mpinfer.learners import RidgeLearner  # noqa: E402
from mpinfer.oracle import ExhaustiveEnsemble  # noqa: E402
from mpinfer.simgen import SimSpec, generate  # noqa: E402

SEED = 5


# -- the reference against the exhaustive oracle ------------------------------

@pytest.fixture(scope="module")
def tiny():
    data = generate(SimSpec(model="linear", task="regression", N=7, M=10,
                            snr=1.0, seed=3))
    data = type(data)(X=data.X[:, :4], Y=data.Y, task=data.task)
    ex = ExhaustiveEnsemble(data, n=3, m=2, learner=RidgeLearner(RIDGE_LAMBDA))
    rows, feats, obs, fm = checks.patch_arrays(ex.enumeration(), 7, 4)
    W, b = checks.ridge_reference(data.X, data.Y, rows, feats, RIDGE_LAMBDA)
    return data, ex, obs, fm, W, b


def test_reference_matches_exhaustive_ensemble(tiny):
    data, ex, obs, fm, W, b = tiny
    loo, loco = checks.loo_loco(checks.predictions(W, b, data.X), obs, fm)
    x_new = np.array([[0.3, -1.2, 0.7, 2.0]])
    loo_new = checks.loo_new(checks.predictions(W, b, x_new), obs)
    for i in range(7):
        assert loo[i] == pytest.approx(ex.loo_prediction(i)[0], abs=1e-10)
        assert loo_new[i, 0] == pytest.approx(
            ex.loo_prediction_new(i, x_new[0])[0], abs=1e-10)
        for j in range(4):
            assert loco[i, j] == pytest.approx(
                ex.loo_loco_prediction(i, j)[0], abs=1e-10)


def test_conditional_target_matches_exhaustive_models(tiny):
    data, ex, _, fm, W, b = tiny
    Z = np.linspace(-2.0, 2.0, 20).reshape(5, 4)
    Yz = Z @ np.array([1.0, -0.5, 0.0, 2.0])
    full = np.mean([m.predict_batch(Z[:, f])[:, 0] for _, _, f, m in ex.fits], axis=0)
    occluded = np.mean([m.predict_batch(Z[:, f])[:, 0]
                        for _, fs, f, m in ex.fits if 1 not in fs], axis=0)
    want = float((np.abs(Yz - occluded) - np.abs(Yz - full)).mean())
    assert checks.conditional_target(W, b, fm, 1, Z, Yz) == pytest.approx(want, abs=1e-10)


def test_jackknife_plus_matches_package_on_exhaustive_patches(tiny):
    data, ex, obs, fm, W, b = tiny
    ens = train_ensemble(data, MPConfig(K=1, learner=RidgeLearner(RIDGE_LAMBDA)),
                         patches=ex.enumeration())
    X_new = np.array([[0.3, -1.2, 0.7, 2.0], [1.0, 0.0, -0.5, 0.1]])
    ivs = predict_intervals_batch(ens, loo_residuals(ens), X_new, 0.3)
    loo, _ = checks.loo_loco(checks.predictions(W, b, data.X), obs, fm)
    lo, hi = checks.jackknife_plus(data.Y, loo, checks.predictions(W, b, X_new),
                                   obs, 0.3)
    for t, iv in enumerate(ivs):
        assert lo[t] == pytest.approx(iv.lo, abs=1e-10)
        assert hi[t] == pytest.approx(iv.hi, abs=1e-10)


def test_exact_pair_gap_matches_enumeration():
    rng = np.random.default_rng(0)
    cache = rng.normal(size=(6, 3))
    obs = np.zeros((6, 3), dtype=bool)
    obs[0, 1] = obs[2, 2] = True
    gap, _ = checks.exact_pair_gap(cache, obs)
    want = []
    for i in range(3):
        v = cache[~obs[:, i], i]
        want.append(np.mean([abs(a - b) for k, a in enumerate(v) for b in v[k + 1:]]))
    assert gap == pytest.approx(np.mean(want), rel=1e-12)


# -- each check fails on a perturbed output -----------------------------------

def _write_inputs(w, work, seed):
    spec = SimSpec(model=w.model, task="regression", N=w.N, M=w.M, snr=w.snr,
                   seed=seed)
    save_dataset(generate(spec), work / "train.csv")
    if w.kind == "predict":
        new = SimSpec(model=w.model, task="regression", N=w.new_points, M=w.M,
                      snr=w.snr, seed=seed + 1)
        save_dataset(generate(new), work / "new.csv")


def _output(w, work):
    out, counts = tracing.traced_round(tracing.Tracer(), w, SEED, work)
    assert checks.check_fits(counts["fits_per_ensemble"], w.K,
                             counts["fits_in_inference"]) == []
    return out


INFER = Workload("t-infer", "infer", "linear", N=200, M=20, snr=20.0, K=500,
                 support=(0,))
PREDICT = Workload("t-predict", "predict", "linear", N=150, M=12, snr=5.0,
                   K=400, new_points=300)
COVERAGE = Workload("t-coverage", "coverage", "linear", N=60, M=12, snr=0.0,
                    K=300, replicates=2, n_test=500)


@pytest.fixture(scope="module")
def infer_case(tmp_path_factory):
    work = tmp_path_factory.mktemp("infer")
    _write_inputs(INFER, work, SEED)
    report = json.loads(_output(INFER, work))
    assert verify.verify_infer(INFER, SEED, work, json.dumps(report)) == []
    return work, report


def _shift(report, j, key, delta):
    out = copy.deepcopy(report)
    out["features"][j][key] += delta
    return out


@pytest.mark.parametrize("key, j, delta", [
    ("mean", 5, 1e-6), ("sd", 5, 1e-6), ("lo", 7, 1e-6), ("hi", 7, -1e-6),
    ("T", 4, 1e-3), ("p", 4, 1e-4),
])
def test_infer_checks_catch_shifted_field(infer_case, key, j, delta):
    work, report = infer_case
    bad = _shift(report, j, key, delta)
    assert verify.verify_infer(INFER, SEED, work, json.dumps(bad))


def test_infer_checks_catch_shifted_b_hat(infer_case):
    work, report = infer_case
    bad = copy.deepcopy(report)
    bad["b_hat"] *= 1.1
    assert checks.check_b_hat(bad["b_hat"], *_ridge_cache(work))
    assert checks.check_intervals(bad, INFER.N)


def _ridge_cache(work):
    X, Y = verify.read_csv(work / "train.csv")
    rows, feats, obs, _ = verify._patches(INFER, SEED)
    W, b = checks.ridge_reference(X, Y, rows, feats, RIDGE_LAMBDA)
    return checks.predictions(W, b, X), obs


def test_infer_checks_catch_dropped_rejection(infer_case):
    work, report = infer_case
    bad = copy.deepcopy(report)
    bad["features"][0]["reject"] = False
    assert checks.check_support(bad, INFER.support)
    assert checks.check_intervals(bad, INFER.N)


@pytest.fixture(scope="module")
def predict_case(tmp_path_factory):
    work = tmp_path_factory.mktemp("predict")
    _write_inputs(PREDICT, work, SEED)
    output = _output(PREDICT, work)
    assert verify.verify_predict(PREDICT, SEED, work, output) == []
    return work, output


def _edit_bounds(output: bytes, row: int, col: int, delta: float) -> bytes:
    lines = output.decode("utf8").splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf8")


@pytest.mark.parametrize("col", [1, 2])
def test_predict_checks_catch_shifted_bound(predict_case, col):
    work, output = predict_case
    assert verify.verify_predict(PREDICT, SEED, work, _edit_bounds(output, 17, col, 1e-4))


def test_predictive_coverage_check_catches_narrow_intervals(predict_case):
    work, output = predict_case
    lo, hi = verify.parse_intervals(output)
    _, y_new = verify.read_csv(work / "new.csv")
    mid = 0.5 * (lo + hi)
    assert checks.check_predictive_coverage(lo, hi, y_new, 0.1) == []
    assert checks.check_predictive_coverage(mid - 0.1, mid + 0.1, y_new, 0.1)


@pytest.fixture(scope="module")
def coverage_report():
    w = COVERAGE
    spec = SimSpec(model=w.model, task="regression", N=w.N, M=w.M, snr=w.snr,
                   seed=SEED)
    config = MPConfig(K=w.K, seed=SEED, learner=RidgeLearner(RIDGE_LAMBDA))
    report = json.loads(run_coverage(spec, config, 0, w.replicates, SEED,
                                     n_test=w.n_test).to_json())
    assert verify.verify_coverage(w, SEED, None, json.dumps(report)) == []
    return report


@pytest.mark.parametrize("key, delta", [("target", 1e-6), ("lo", 1e-6), ("hi", -1e-6)])
def test_coverage_checks_catch_edited_row(coverage_report, key, delta):
    bad = copy.deepcopy(coverage_report)
    bad["rows"][1][key] += delta
    assert verify.verify_coverage(COVERAGE, SEED, None, json.dumps(bad))


def test_coverage_checks_catch_flipped_flag(coverage_report):
    bad = copy.deepcopy(coverage_report)
    bad["rows"][0]["covered"] = not bad["rows"][0]["covered"]
    assert verify.verify_coverage(COVERAGE, SEED, None, json.dumps(bad))


def test_fit_check_catches_refits():
    assert checks.check_fits([400], 400, 0) == []
    assert checks.check_fits([401], 400, 0)
    assert checks.check_fits([400], 400, 1)

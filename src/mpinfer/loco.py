"""Feature-importance inference from a fitted minipatch ensemble.

Occlusion scores compare each row's leave-one-out prediction error with
and without the target feature available to the ensemble; the score mean
gets a normal-approximation interval, optionally widened by a small
variance barrier epsilon(N) = c * L * B * n * log(N) / N that protects
coverage when the score variance collapses for null features.  The
one-sided test rejects H0: importance <= 0 when the studentised mean
clears the upper-alpha normal quantile.

Everything here reads the leave-out sums, counts and B-hat pair
predictions that the ensemble's fit pass made: no model is refit during
inference.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    CoverageFailure, Dataset, DegenerateDenominator, DimensionMismatch,
    InvalidSize, TooFewRows, error_vector,
)
from .ensemble import Ensemble, average, draw_pairs
from .normal import norm_ppf, norm_sf
from .rng import generator

__all__ = [
    "OcclusionResult", "FeatureInterval", "TestResult", "InferenceReport",
    "occlusion_scores", "plain_interval", "buffered_interval",
    "estimate_B", "mean_pair_gap", "variance_barrier", "test_feature", "infer_all",
    "infer_feature", "loco_split_baseline", "report_to_csv", "report_to_json",
]


@dataclass(frozen=True)
class OcclusionResult:
    """Per-row occlusion scores for one feature with their mean and sd."""

    j: int
    scores: np.ndarray
    mean: float
    sd: float
    n_obs: int


@dataclass(frozen=True)
class FeatureInterval:
    """Normal-approximation interval for one feature's importance.

    ``alpha`` is the level the interval was built at (already divided by
    M under Bonferroni).  ``b_hat``/``epsilon_n`` are present only on
    buffered intervals.  ``t_stat``/``p_value`` are None when the score
    spread and barrier are both exactly zero.
    """

    j: int
    lo: float
    hi: float
    alpha: float
    buffered: bool
    mean: float
    sd: float
    b_hat: float | None = None
    epsilon_n: float | None = None
    t_stat: float | None = None
    p_value: float | None = None
    name: str | None = None

    @property
    def reject(self) -> bool:
        if self.t_stat is None:
            return False
        return self.t_stat >= norm_ppf(1.0 - self.alpha)


class TestResult(NamedTuple):
    t_stat: float
    p_value: float
    reject: bool


def _occlusion_results(ens: Ensemble, features) -> list:
    """Occlusion scores of each listed feature from one LOCO pass; a
    feature without full coverage gets its CoverageFailure instead."""
    ds = ens.dataset
    numer, counts = ens.leave_out_sums(features)
    out = []
    for col, j in enumerate(features, start=1):
        try:
            loo = average(numer[:, 0], counts[:, 0])
            loco = average(numer[:, col], counts[:, col], j)
        except CoverageFailure as exc:
            out.append(exc)
            continue
        scores = error_vector(ds.task, ds.Y, loco) - error_vector(ds.task, ds.Y, loo)
        out.append(OcclusionResult(j=j, scores=scores, mean=float(scores.mean()),
                                   sd=float(scores.std(ddof=1)),
                                   n_obs=scores.shape[0]))
    return out


def occlusion_scores(ens: Ensemble, j: int) -> OcclusionResult:
    """Score every row: error with feature j occluded minus error with it."""
    res = _occlusion_results(ens, [j])[0]
    if isinstance(res, CoverageFailure):
        raise res
    return res


def _t_and_p(mean: float, denom: float):
    if denom <= 0.0:
        return None, None
    t = mean / denom
    return float(t), float(norm_sf(t))


def plain_interval(res: OcclusionResult, alpha: float) -> FeatureInterval:
    """mean +/- z_{alpha/2} * sd / sqrt(N)."""
    if res.n_obs < 2:
        raise TooFewRows("need at least 2 scores for an interval")
    z = norm_ppf(1.0 - alpha / 2.0)
    half = z * res.sd / math.sqrt(res.n_obs)
    t, p = _t_and_p(res.mean, res.sd / math.sqrt(res.n_obs))
    return FeatureInterval(j=res.j, lo=res.mean - half, hi=res.mean + half,
                           alpha=alpha, buffered=False, mean=res.mean,
                           sd=res.sd, t_stat=t, p_value=p)


def buffered_interval(res: OcclusionResult, alpha: float, epsilon_n: float,
                      b_hat: float | None = None) -> FeatureInterval:
    """mean +/- z_{alpha/2} * (sd / sqrt(N) + epsilon_n)."""
    if epsilon_n < 0.0:
        raise InvalidSize("epsilon_n must be >= 0")
    z = norm_ppf(1.0 - alpha / 2.0)
    spread = res.sd / math.sqrt(res.n_obs) + epsilon_n
    t, p = _t_and_p(res.mean, spread)
    return FeatureInterval(j=res.j, lo=res.mean - z * spread,
                           hi=res.mean + z * spread, alpha=alpha,
                           buffered=True, mean=res.mean, sd=res.sd,
                           b_hat=b_hat, epsilon_n=epsilon_n,
                           t_stat=t, p_value=p)


def estimate_B(ens: Ensemble, pairs_per_sample: int = 10, seed: int = 0) -> float:
    """Estimate the prediction-difference bound from the models'
    predictions at the training rows.

    For each row, sample uniform pairs of distinct patches that exclude it
    (:func:`mpinfer.ensemble.draw_pairs`) and average the Euclidean gap
    between the two predictions at the row; the estimate averages those
    per-row means.  The predictions are rebuilt from the stack; the fit
    pass gathered those of ``pairs_per_sample=10`` and
    ``seed=spawn_seed(config.seed, "estimate-b")`` already, and
    inference reads them from there.
    """
    pairs = draw_pairs(ens.obs_mask, pairs_per_sample, seed)
    return mean_pair_gap(ens.pair_predictions(pairs))


def mean_pair_gap(pair_preds: np.ndarray) -> float:
    """B-hat from predictions (2, N, pairs, d) at each row's patch pairs:
    the mean over rows of the mean Euclidean gap within a pair."""
    diff = pair_preds[0] - pair_preds[1]
    gaps = np.sqrt((diff * diff).sum(axis=2))               # (N, pairs)
    return float(gaps.mean(axis=1).mean())


def variance_barrier(b_hat: float, n: int, N: int, L: float = 1.0,
                     c: float = 0.000005) -> float:
    """Barrier value c * L * B * n * log(N) / N (natural log)."""
    if min(b_hat, n, N, L, c) < 0 or N < 2:
        raise InvalidSize("barrier inputs must be nonnegative with N >= 2")
    return c * L * b_hat * n * math.log(N) / N


def test_feature(res: OcclusionResult, alpha: float, epsilon_n: float) -> TestResult:
    """One-sided test of H0: importance <= 0.

    T = mean / (sd / sqrt(N) + epsilon_n); reject iff T >= z_alpha,
    equivalently p = 1 - Phi(T) <= alpha.
    """
    t, p = _t_and_p(res.mean, res.sd / math.sqrt(res.n_obs) + epsilon_n)
    if t is None:
        raise DegenerateDenominator("score sd and barrier are both zero")
    return TestResult(t_stat=t, p_value=p, reject=bool(t >= norm_ppf(1.0 - alpha)))


@dataclass(frozen=True)
class InferenceReport:
    """Per-feature intervals plus the shared barrier provenance."""

    intervals: tuple[FeatureInterval | None, ...]
    failures: dict
    alpha: float
    bonferroni: bool
    b_hat: float
    epsilon_n: float
    settings: dict
    feature_names: tuple[str, ...] | None = None


def _barrier(ens: Ensemble) -> tuple[float, float]:
    """(B-hat, epsilon_N) under the config's buffer settings, from the
    fit pass's pair predictions."""
    cfg = ens.config
    if not cfg.use_buffer:
        return 0.0, 0.0
    if ens.pair_preds is None:
        raise CoverageFailure(int(np.argmax(ens.counts[:, 0] < 2)))
    b_hat = mean_pair_gap(ens.pair_preds)
    return b_hat, variance_barrier(b_hat, cfg.n, ens.dataset.n_rows, c=cfg.buffer_c)


def infer_all(ens: Ensemble, alpha: float | None = None,
              bonferroni: bool = False) -> InferenceReport:
    """Interval and test for every feature off one fitted ensemble.

    One prediction-difference estimate and one barrier value are shared
    across features; under ``bonferroni`` each feature runs at level
    alpha / M.  A coverage failure on one feature is recorded and the
    remaining features are unaffected.
    """
    ds = ens.dataset
    cfg = ens.config
    if alpha is None:
        alpha = cfg.alpha
    M = ds.n_features
    level = alpha / M if bonferroni else alpha
    b_hat, eps = _barrier(ens)

    intervals: list[FeatureInterval | None] = []
    failures: dict[int, str] = {}
    names = ds.feature_names
    for j, res in enumerate(_occlusion_results(ens, range(M))):
        if isinstance(res, CoverageFailure):
            failures[j] = str(res)
            intervals.append(None)
            continue
        iv = buffered_interval(res, level, eps, b_hat=b_hat)
        if names is not None:
            iv = replace(iv, name=names[j])
        intervals.append(iv)
    return InferenceReport(intervals=tuple(intervals), failures=failures,
                           alpha=alpha, bonferroni=bonferroni, b_hat=b_hat,
                           epsilon_n=eps, settings=cfg.settings_dict(),
                           feature_names=names)


def infer_feature(ens: Ensemble, j: int, alpha: float | None = None) -> FeatureInterval:
    """Interval and test for a single feature, honouring the config's
    buffer settings; barrier randomness derives from the config seed."""
    if alpha is None:
        alpha = ens.config.alpha
    b_hat, eps = _barrier(ens)
    return buffered_interval(occlusion_scores(ens, j), alpha, eps, b_hat=b_hat)


def loco_split_baseline(dataset: Dataset, j: int, alpha: float, learner,
                        split_seed: int) -> FeatureInterval:
    """Split-sample baseline: one full fit and one leave-j-out fit.

    Rows are permuted by the seed and split ceil(N/2) / rest; both models
    are fit on the first part, scored on the second, and the score mean
    gets the same normal interval and one-sided test as the main method.
    """
    N = dataset.n_rows
    if N < 4:
        raise TooFewRows("split baseline needs at least 4 rows")
    if not 0 <= j < dataset.n_features:
        raise DimensionMismatch(f"feature index {j} out of range")
    order = generator(split_seed, "split").permutation(N)
    n1 = -(-N // 2)
    d1, d2 = order[:n1], order[n1:]

    X, Y = dataset.X, dataset.Y
    keep = [c for c in range(dataset.n_features) if c != j]
    full = learner.fit(X[d1], Y[d1], dataset.task, dataset.n_classes)
    reduced = learner.fit(X[d1][:, keep], Y[d1], dataset.task, dataset.n_classes)

    err_full = error_vector(dataset.task, Y[d2], full.predict_batch(X[d2]))
    err_red = error_vector(dataset.task, Y[d2],
                           reduced.predict_batch(X[d2][:, keep]))
    scores = err_red - err_full
    res = OcclusionResult(j=j, scores=scores, mean=float(scores.mean()),
                          sd=float(scores.std(ddof=1)), n_obs=scores.shape[0])
    return plain_interval(res, alpha)


# -- report serialisation ---------------------------------------------------

_CSV_COLUMNS = ["j", "name", "mean", "sd", "lo", "hi", "T", "p", "reject"]


def report_to_csv(report: InferenceReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for j, iv in enumerate(report.intervals):
        if iv is None:
            writer.writerow([j, _feature_name(report, j), "", "", "", "", "", "",
                             f"coverage_failure:{report.failures.get(j, '')}"])
            continue
        writer.writerow([
            j, _feature_name(report, j),
            format(iv.mean, ".17g"), format(iv.sd, ".17g"),
            format(iv.lo, ".17g"), format(iv.hi, ".17g"),
            "" if iv.t_stat is None else format(iv.t_stat, ".17g"),
            "" if iv.p_value is None else format(iv.p_value, ".17g"),
            int(iv.reject),
        ])
    return buf.getvalue()


def _feature_name(report: InferenceReport, j: int) -> str:
    if report.feature_names is not None:
        return report.feature_names[j]
    return f"x{j}"


def report_to_json(report: InferenceReport) -> str:
    features = []
    for j, iv in enumerate(report.intervals):
        if iv is None:
            features.append({"j": j, "name": _feature_name(report, j),
                             "error": report.failures.get(j, "coverage failure")})
            continue
        features.append({
            "j": j, "name": _feature_name(report, j), "mean": iv.mean,
            "sd": iv.sd, "lo": iv.lo, "hi": iv.hi, "T": iv.t_stat,
            "p": iv.p_value, "reject": bool(iv.reject), "level": iv.alpha,
        })
    payload = {
        "alpha": report.alpha,
        "bonferroni": report.bonferroni,
        "b_hat": report.b_hat,
        "epsilon_n": report.epsilon_n,
        "settings": report.settings,
        "features": features,
    }
    return json.dumps(payload, sort_keys=True, indent=2)

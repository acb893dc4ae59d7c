"""Ground-truth machinery used to validate the inference pipeline.

Three independent routes to the importance target:

* an exhaustive combinatorial ensemble that fits every possible
  minipatch once and answers leave-out queries by direct averaging
  (deliberately shares no aggregation code with the production
  ensemble);
* a Monte Carlo estimate of the importance target on fresh test points
  from the generating distribution;
* closed-form values for linear models with independent features, plus
  the two correlation limits for the adjacent-pair covariance design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    CoverageFailure, Dataset, DimensionMismatch, InvalidSize, MPConfig,
    NoSampler, Task, TooLarge, error_vector,
)
from .ensemble import fit_patch_models, patch_array, patch_sums, sample_minipatches
from .learners import RidgeLearner
from .rng import generator, spawn_seed

__all__ = [
    "ExhaustiveEnsemble", "brute_force_predictor", "MCTarget",
    "monte_carlo_target", "ensemble_conditional_target",
    "LinearTargetParams", "linear_closed_form_target",
    "correlated_closed_form_limits",
]

_MAX_PATCHES = 10 ** 6


class ExhaustiveEnsemble:
    """Every C(N, n) * C(M, m) minipatch fitted exactly once.

    Queries loop over the stored patches and average plainly, keeping
    this implementation an independent check on the fit pass's masked
    leave-out sums.
    """

    def __init__(self, dataset: Dataset, n: int, m: int, learner):
        N, M = dataset.n_rows, dataset.n_features
        if not (1 <= n < N) or not (1 <= m < M):
            raise InvalidSize(f"invalid sizes n={n}, m={m} for {N}x{M}")
        total = math.comb(N, n) * math.comb(M, m)
        if total > _MAX_PATCHES:
            raise TooLarge(f"{total} patches exceed the {_MAX_PATCHES} guard")
        self.dataset = dataset
        self.n, self.m = n, m
        self.fits = []
        X, Y = dataset.X, dataset.Y
        for rows in combinations(range(N), n):
            rows = list(rows)
            for feats in combinations(range(M), m):
                feats = list(feats)
                model = learner.fit(X[rows][:, feats], Y[rows],
                                    dataset.task, dataset.n_classes)
                self.fits.append((frozenset(rows), frozenset(feats),
                                  np.array(feats), model))

    def _average(self, x, keep, i: int = -1, j: int | None = None) -> np.ndarray:
        """Plain mean at x of the models whose (rows, features) pass keep."""
        preds = [model.predict_batch(x[feats][None, :])[0]
                 for rows, fset, feats, model in self.fits if keep(rows, fset)]
        if not preds:
            raise CoverageFailure(i, j)
        return np.mean(np.stack(preds), axis=0)

    def full_prediction(self, x) -> np.ndarray:
        return self._average(np.asarray(x, dtype=float), lambda rows, fset: True)

    def loo_prediction(self, i: int) -> np.ndarray:
        return self._average(self.dataset.X[i], lambda rows, fset: i not in rows, i)

    def loo_loco_prediction(self, i: int, j: int) -> np.ndarray:
        return self._average(self.dataset.X[i],
                             lambda rows, fset: i not in rows and j not in fset, i, j)

    def loo_prediction_new(self, i: int, x_new) -> np.ndarray:
        x = np.asarray(x_new, dtype=float)
        if x.shape != (self.dataset.n_features,):
            raise DimensionMismatch("x_new must have one entry per feature")
        return self._average(x, lambda rows, fset: i not in rows, i)

    def enumeration(self) -> np.recarray:
        """Every patch, in fitting order, as one record array
        (:func:`patch_array`) reusable as an ensemble patch override."""
        return patch_array([sorted(rows) for rows, _, _, _ in self.fits],
                           [feats for _, _, feats, _ in self.fits])


def brute_force_predictor(dataset: Dataset, n: int, m: int, learner) -> ExhaustiveEnsemble:
    return ExhaustiveEnsemble(dataset, n, m, learner)


@dataclass(frozen=True)
class MCTarget:
    """Monte Carlo estimate of an importance target.

    ``se`` combines both Monte Carlo error sources: fresh-test-point
    sampling and random patch sampling (the latter via batch means over
    patch blocks).
    """

    value: float
    se: float
    n_test: int

    def __float__(self) -> float:
        return self.value


def _score_gap(task: Task, Y, full, noj, error: str) -> np.ndarray:
    """Per-point error of the occluded predictions minus the full ones."""
    if error == "squared":
        if task != Task.REGRESSION:
            raise DimensionMismatch("squared error applies to regression only")
        return (Y - noj[:, 0]) ** 2 - (Y - full[:, 0]) ** 2
    if error == "task":
        return error_vector(task, Y, noj) - error_vector(task, Y, full)
    raise InvalidSize(f"unknown error kind {error!r}")


def monte_carlo_target(train: Dataset, config: MPConfig, j: int, sampler,
                       n_test: int = 10_000, seed: int = 0,
                       error: str = "task") -> MCTarget:
    """Estimate the expected test-error increase from occluding feature j.

    Fits one random minipatch ensemble per predictor on the full training
    set and compares average prediction errors on ``n_test`` fresh points
    (no leave-one-out restriction).  The two ensembles are coupled: the
    occluded one reuses every row draw and every patch already avoiding
    feature j, and only resamples the feature set (uniformly away from j)
    for patches that contained it.  Marginally each occluded patch is an
    exact uniform draw from the reduced feature space, while the coupling
    cancels the shared patch noise; a learner that ignores its inputs
    yields exactly zero.  ``error="squared"`` switches regression scoring
    to squared error, matching the closed-form linear-model targets.
    """
    if sampler is None:
        raise NoSampler("monte_carlo_target needs a fresh-data sampler")

    config = config.resolve(train.n_rows, train.n_features)
    if not 0 <= j < train.n_features:
        raise DimensionMismatch(f"feature index {j} out of range")
    M = train.n_features
    if config.m > M - 1:
        raise CoverageFailure(-1, j)
    learner = config.learner if config.learner is not None else RidgeLearner()

    patches = sample_minipatches(train.n_rows, M, config.n,
                                 config.m, config.K, spawn_seed(seed, "patches"))
    resample = generator(seed, "occluded-features")
    others = np.delete(np.arange(M), j)
    test = sampler(n_test, spawn_seed(seed, "testdata"))
    Z, Y = test.X, test.Y

    K, rows, feats = len(patches), patches.rows, patches.features
    blocks = min(10, K)
    # the occluded ensemble swaps each j-holding patch for a refit on
    # features drawn away from j, in patch order
    holds = np.nonzero((feats == j).any(axis=1))[0]
    occ = feats.copy()
    for k in holds:
        occ[k] = np.sort(resample.choice(others, size=config.m, replace=False))
    full = fit_patch_models(train, learner, rows, feats)
    # the refits follow the K full models in the joined stack
    swap = np.arange(K)
    swap[holds] = K + np.arange(holds.size)
    occluded = full.join(fit_patch_models(train, learner, rows[holds],
                                          occ[holds])).take(swap)
    # column b sums the models of block b of the patches
    W = (np.arange(K) * blocks // K)[:, None] == np.arange(blocks)
    sum_all = patch_sums(full, feats, Z, W)
    sum_noj = patch_sums(occluded, occ, Z, W)
    block_k = W.sum(axis=0)

    diffs = _score_gap(train.task, Y, sum_all.sum(axis=0) / K,
                       sum_noj.sum(axis=0) / K, error)
    value = float(diffs.mean())
    se_test = float(diffs.std(ddof=1) / math.sqrt(n_test))

    # Patch-sampling error via batch means: each block of patches is a
    # smaller valid estimator; the spread of block values scaled by the
    # block count approximates the patch noise left in the full average.
    se_patch = 0.0
    if blocks >= 2:
        block_vals = np.array([
            float(_score_gap(train.task, Y, sum_all[b] / block_k[b],
                             sum_noj[b] / block_k[b], error).mean())
            for b in range(blocks)
        ])
        se_patch = float(block_vals.std(ddof=1) / math.sqrt(blocks))

    se = math.hypot(se_test, se_patch)
    return MCTarget(value=value, se=se, n_test=n_test)


def ensemble_conditional_target(ens, j: int, sampler, n_test: int = 10_000,
                                seed: int = 0, error: str = "task") -> MCTarget:
    """Importance target of one specific fitted ensemble, by Monte Carlo.

    Conditions on the ensemble's own patch draw: the full predictor
    averages every fitted model and the occluded predictor averages the
    models whose patch misses feature j, both evaluated at fresh test
    points.  No model is refit.  This is the quantity the interval
    around the occlusion-score mean tracks when the patch count is too
    small for the ensemble randomness to wash out; ``se`` covers the
    test-point sampling error only, since the patch set is fixed.
    """
    if sampler is None:
        raise NoSampler("ensemble_conditional_target needs a fresh-data sampler")
    train = ens.dataset
    if not 0 <= j < train.n_features:
        raise DimensionMismatch(f"feature index {j} out of range")
    keep = ~ens.feat_mask[:, j]
    if not keep.any():
        raise CoverageFailure(-1, j)

    test = sampler(n_test, spawn_seed(seed, "testdata"))
    sum_all, sum_noj = patch_sums(ens.models, ens.patches.features, test.X,
                                  np.stack([np.ones_like(keep), keep], axis=1))
    diffs = _score_gap(train.task, test.Y, sum_all / ens.K,
                       sum_noj / int(keep.sum()), error)
    return MCTarget(value=float(diffs.mean()),
                    se=float(diffs.std(ddof=1) / math.sqrt(n_test)),
                    n_test=n_test)


@dataclass(frozen=True)
class LinearTargetParams:
    """Inputs to the closed-form linear-model importance target."""

    beta: np.ndarray
    gamma: float
    M: int
    j: int

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.beta.shape != (self.M,):
            raise DimensionMismatch("beta must have length M")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidSize("need 0 < gamma < 1")
        if self.M < 2:
            raise InvalidSize("need M >= 2")
        if not 0 <= self.j < self.M:
            raise DimensionMismatch("feature index out of range")


def linear_closed_form_target(p: LinearTargetParams) -> float:
    """Exact importance target for least squares on independent Gaussian
    features under squared error: the occluded feature's squared
    coefficient traded against the average squared coefficient of the
    rest, weighted by the feature-sampling ratio gamma."""
    gamma, M = p.gamma, p.M
    beta_j = p.beta[p.j]
    rest = float(p.beta @ p.beta - beta_j * beta_j)
    return gamma * ((2.0 - gamma) * beta_j ** 2
                    - (2.0 - (2.0 * M - 1.0) / (M - 1.0) * gamma) * rest / (M - 1.0))


def correlated_closed_form_limits(beta, m: int, M: int, j: int) -> tuple[float, float]:
    """Importance-target limits as the pair correlation goes to 0 or 1.

    Covariance design: unit variances with a single correlated pair,
    features 0 and 1.  ``j`` must be 0 or 1.  The rho -> 1 limit groups
    the pair's coefficients: either feature carries the pair's summed
    signal, shrunk by how often the partner is absent from a patch.
    """
    beta = np.asarray(beta, dtype=float)
    if M < 3 or beta.shape != (M,):
        raise InvalidSize("need M >= 3 and beta of length M")
    if not (1 <= m < M):
        raise InvalidSize("need 1 <= m < M")
    if j not in (0, 1):
        raise DimensionMismatch("limits are available for features 0 and 1")
    gamma = m / M
    partner = 1 - j
    noise_w = 2.0 / (M - 1.0) - m * (2.0 * M - 1.0) / ((M - 1.0) ** 2 * M)

    rest_j = float(beta @ beta - beta[j] ** 2)
    limit0 = gamma * (2.0 - gamma) * beta[j] ** 2 - gamma * noise_w * rest_j

    rest_pair = float(beta @ beta - beta[j] ** 2 - beta[partner] ** 2)
    shrink = ((M - m - 1.0) / (M - 1.0)) ** 2
    limit1 = (gamma * (2.0 - gamma) * shrink * (beta[j] + beta[partner]) ** 2
              - gamma * noise_w * rest_pair)
    return limit0, limit1

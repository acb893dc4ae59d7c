"""Jackknife+ predictive inference from the same fitted ensemble.

Leave-one-out residuals and per-row LOO predictions of a new point are
combined through order-statistic quantiles into distribution-free
intervals (regression) or label sets (classification).  Order-statistic
ranks are snapped to the nearest integer when within 1e-9 so that float
representation of alpha (e.g. 0.9 * 10) cannot shift a rank by one.
Every rule here is one rank and one selection, :func:`_order_stat`,
made for all new points (and labels) of a batch at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EmptyInput, InvalidSize, Task, TaskMismatch, error_vector
from .ensemble import Ensemble
from .rng import generator

__all__ = [
    "LooResiduals", "PredictiveInterval", "PredictiveSet",
    "quantile_plus", "quantile_minus", "loo_residuals",
    "predict_interval", "predict_set", "predict_intervals_batch",
    "predict_sets_batch", "sample_K_binomial",
]

_RANK_TOL = 1e-9


@dataclass(frozen=True)
class LooResiduals:
    """Nonconformity of each row's leave-one-out prediction."""

    R: np.ndarray


@dataclass(frozen=True)
class PredictiveInterval:
    lo: float
    hi: float
    alpha: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, y: float) -> bool:
        return self.lo <= y <= self.hi


@dataclass(frozen=True)
class PredictiveSet:
    labels: tuple[int, ...]
    alpha: float

    def contains(self, y: int) -> bool:
        return int(y) in self.labels


def _snap(t: float) -> float:
    nearest = round(t)
    if abs(t - nearest) < _RANK_TOL:
        return float(nearest)
    return t


def _order_stat(values: np.ndarray, rank: int) -> np.ndarray:
    """The rank-th smallest of ``values`` along axis 0, which is
    partitioned in place; -inf below rank 1 and +inf past the end.  The
    result is a new array, so keeping it does not keep ``values``."""
    N = values.shape[0]
    if N == 0:
        raise EmptyInput("quantile of an empty vector")
    if not 1 <= rank <= N:
        return np.full(values.shape[1:], -math.inf if rank < 1 else math.inf)
    values.partition(rank - 1, axis=0)
    return values[rank - 1].copy()


def quantile_plus(values, alpha: float) -> float:
    """The ceil((1-alpha)(N+1))-th smallest value, +inf past the end."""
    values = np.array(values, dtype=float)      # a copy: partitioned below
    rank = math.ceil(_snap((1.0 - alpha) * (values.size + 1)))
    return float(_order_stat(values, rank))


def quantile_minus(values, alpha: float) -> float:
    """The floor(alpha(N+1))-th smallest value, -inf below the start."""
    values = np.array(values, dtype=float)      # a copy: partitioned below
    rank = math.floor(_snap(alpha * (values.size + 1)))
    return float(_order_stat(values, rank))


def loo_residuals(ens: Ensemble) -> LooResiduals:
    ds = ens.dataset
    return LooResiduals(R=error_vector(ds.task, ds.Y, ens.loo_all()))


def predict_intervals_batch(ens: Ensemble, residuals: LooResiduals,
                            X_new, alpha: float) -> list[PredictiveInterval]:
    """Regression intervals for a block of new points, chunk by chunk."""
    if ens.dataset.task != Task.REGRESSION:
        raise TaskMismatch("predictive intervals require a regression ensemble")
    N, R = ens.dataset.n_rows, residuals.R[:, None]
    lo_rank = math.floor(_snap(alpha * (N + 1)))
    hi_rank = math.ceil(_snap((1.0 - alpha) * (N + 1)))
    out = []
    for chunk in ens.loo_new_chunks(X_new):
        loo = chunk[:, :, 0]                        # (N, t)
        lo = _order_stat(loo - R, lo_rank)
        loo += R
        hi = _order_stat(loo, hi_rank)
        out += [PredictiveInterval(lo=a, hi=b, alpha=alpha)
                for a, b in zip(lo.tolist(), hi.tolist())]
    return out


def predict_interval(ens: Ensemble, residuals: LooResiduals, x_new,
                     alpha: float) -> PredictiveInterval:
    x_new = np.asarray(x_new, dtype=float)
    return predict_intervals_batch(ens, residuals, x_new[None, :], alpha)[0]


def predict_sets_batch(ens: Ensemble, residuals: LooResiduals,
                       X_new, alpha: float) -> list[PredictiveSet]:
    """Classification label sets for a block of new points, chunk by chunk.

    A label enters the set when the count of rows whose residual it
    fails to beat stays within (1-alpha)(N+1).
    """
    if ens.dataset.task != Task.CLASSIFICATION:
        raise TaskMismatch("predictive sets require a classification ensemble")
    N, R = ens.dataset.n_rows, residuals.R[:, None, None]
    # at most k rows with errs >= R  <=>  the (N-k)-th smallest errs - R < 0
    rank = N - math.floor(_snap((1.0 - alpha) * (N + 1)) + _RANK_TOL)
    out = []
    for errs in ens.loo_new_chunks(X_new):          # (N, t, d)
        np.subtract(1.0, errs, out=errs)            # each label's error
        errs -= R
        inside = _order_stat(errs, rank) < 0        # (t, d)
        out += [PredictiveSet(labels=tuple(np.flatnonzero(row).tolist()), alpha=alpha)
                for row in inside]
    return out


def predict_set(ens: Ensemble, residuals: LooResiduals, x_new,
                alpha: float) -> PredictiveSet:
    x_new = np.asarray(x_new, dtype=float)
    return predict_sets_batch(ens, residuals, x_new[None, :], alpha)[0]


def sample_K_binomial(K_tilde: int, n: int, N: int, seed: int) -> int:
    """Draw the patch count as Binomial(K_tilde, 1 - n/(N+1)).

    Opt-in mode for experiments that want the randomised-ensemble-size
    variant of the coverage guarantee; deterministic in the seed.
    """
    if K_tilde < 1 or not (1 <= n <= N):
        raise InvalidSize(f"invalid K_tilde={K_tilde}, n={n}, N={N}")
    gen = generator(seed, "binomial-k")
    return int(gen.binomial(K_tilde, 1.0 - n / (N + 1)))

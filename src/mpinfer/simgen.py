"""Synthetic data generators with controllable signal, correlation, and seed.

Three models over Gaussian features X ~ N(0, Sigma):

* linear:      f(x) = x . beta with beta = [snr, 5 x 9, 0, ...]; Sigma = I.
* correlated:  same beta; Sigma is tridiagonal with rho on the first
               off-diagonals (adjacent features correlated).
* nonlinear:   f(x) = snr * 1[-2,2](x1) * x1 + 5 max(0, x2)
               + 5 min(0, x3) + 5 max(0, x4) + 5 sign(x5); Sigma = I.

Regression adds N(0, 1) noise; classification draws labels from a
logistic model Bernoulli(1 / (1 + exp(-f))).  All randomness flows
through the package's inverse-CDF Gaussian transform, so output is
byte-identical for a given spec across platforms.  sign(0) is 0.  The
features are drawn block by block into X (see :mod:`mpinfer.rng`) and
correlated in place, so X is the only (N, M) array a draw holds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import Dataset, InvalidSpec, Task
from .rng import generator, standard_normal, uniform_open

__all__ = ["SimModel", "SimSpec", "generate", "true_beta", "true_support",
           "sampler", "sidecar_dict", "write_sidecar"]

_FIXED_SIGNALS = 9
_SIGNAL_MAGNITUDE = 5.0


class SimModel(str, Enum):
    LINEAR = "linear"
    CORRELATED = "correlated"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class SimSpec:
    model: SimModel
    task: Task
    N: int
    M: int
    snr: float = 0.0
    rho: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "model", SimModel(self.model))
        object.__setattr__(self, "task", Task(self.task))
        if self.N < 2:
            raise InvalidSpec(f"need N >= 2, got {self.N}")
        min_m = 1 + _FIXED_SIGNALS if self.model != SimModel.NONLINEAR else 5
        if self.M < min_m:
            raise InvalidSpec(f"{self.model.value} model needs M >= {min_m}")
        if abs(self.rho) >= 1.0:
            raise InvalidSpec("need |rho| < 1")
        if self.model != SimModel.CORRELATED and self.rho != 0.0:
            raise InvalidSpec("rho applies only to the correlated model")


def true_beta(spec: SimSpec) -> np.ndarray | None:
    """Generating coefficients for the linear-style models, else None."""
    if spec.model == SimModel.NONLINEAR:
        return None
    beta = np.zeros(spec.M)
    beta[0] = spec.snr
    beta[1:1 + _FIXED_SIGNALS] = _SIGNAL_MAGNITUDE
    return beta


def true_support(spec: SimSpec) -> set[int]:
    """Indices of features that genuinely influence the response."""
    if spec.model == SimModel.NONLINEAR:
        support = {1, 2, 3, 4}
    else:
        support = set(range(1, 1 + _FIXED_SIGNALS))
    if spec.snr != 0.0:
        support.add(0)
    return support


def _bidiagonal_factor(M: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor of the tridiagonal covariance, stored as two bands.

    The factor of a unit-diagonal tridiagonal matrix is lower bidiagonal,
    so sampling costs O(N*M).  Raises when the matrix is not positive
    definite (the tridiagonal form constrains |rho| well below 1 for
    large M).
    """
    diag = np.empty(M)
    sub = np.empty(M)            # sub[j] multiplies z[:, j-1]
    diag[0], sub[0] = 1.0, 0.0
    for j in range(1, M):
        sub[j] = rho / diag[j - 1]
        rest = 1.0 - sub[j] * sub[j]
        if rest <= 0.0:
            raise InvalidSpec(
                f"tridiagonal covariance with rho={rho} is not positive "
                f"definite at M={M}; use a smaller |rho|"
            )
        diag[j] = math.sqrt(rest)
    return diag, sub


def _draw_X(spec: SimSpec) -> np.ndarray:
    gen = generator(spec.seed, "features")
    Z = standard_normal(gen, (spec.N, spec.M))
    if spec.model != SimModel.CORRELATED or spec.rho == 0.0:
        return Z
    diag, sub = _bidiagonal_factor(spec.M, spec.rho)
    # in place, last column first: column j reads only the untouched j-1, j
    for j in range(spec.M - 1, 0, -1):
        Z[:, j] = sub[j] * Z[:, j - 1] + diag[j] * Z[:, j]
    return Z


def _signal(spec: SimSpec, X: np.ndarray) -> np.ndarray:
    if spec.model == SimModel.NONLINEAR:
        s = _SIGNAL_MAGNITUDE
        x1, x2, x3, x4, x5 = (X[:, k] for k in range(5))
        inside = (x1 >= -2.0) & (x1 <= 2.0)
        return (spec.snr * np.where(inside, x1, 0.0)
                + s * np.maximum(0.0, x2)
                + s * np.minimum(0.0, x3)
                + s * np.maximum(0.0, x4)
                + s * np.sign(x5))
    return X @ true_beta(spec)


def generate(spec: SimSpec) -> Dataset:
    """Materialise one dataset; identical bytes for identical specs."""
    X = _draw_X(spec)
    f = _signal(spec, X)
    gen = generator(spec.seed, "response")
    if spec.task == Task.REGRESSION:
        Y = f + standard_normal(gen, spec.N)
        return Dataset(X=X, Y=Y, task=Task.REGRESSION)
    with np.errstate(over="ignore"):     # exp(-f) = inf gives prob 0, its limit
        prob = 1.0 / (1.0 + np.exp(-f))
    Y = (uniform_open(gen, spec.N) < prob).astype(np.int64)
    return Dataset(X=X, Y=Y, task=Task.CLASSIFICATION, n_classes=2,
                   label_names=("0", "1"))


def sampler(spec: SimSpec):
    """Fresh-draw closure: (n_points, seed) -> Dataset from the same law."""

    def draw(n_points: int, seed: int) -> Dataset:
        return generate(replace(spec, N=n_points, seed=seed))

    return draw


def sidecar_dict(spec: SimSpec) -> dict:
    beta = true_beta(spec)
    return {
        "model": spec.model.value,
        "task": spec.task.value,
        "N": spec.N,
        "M": spec.M,
        "snr": spec.snr,
        "rho": spec.rho,
        "seed": spec.seed,
        "true_beta": None if beta is None else [float(b) for b in beta],
        "true_support": sorted(true_support(spec)),
    }


def write_sidecar(spec: SimSpec, path) -> None:
    with open(path, "w", encoding="utf8") as fh:
        json.dump(sidecar_dict(spec), fh, sort_keys=True, indent=2)
        fh.write("\n")

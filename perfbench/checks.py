"""Output checks for the benchmark, kept apart from the ``mpinfer`` code paths.

Two kinds of check:

* a numpy ridge reference.  It takes the patch draw from
  ``mpinfer.ensemble.sample_minipatches`` and nothing else from the
  package: every patch is fitted by one batched solve, and the LOO, LOCO
  and new-point averages are plain mask products over the reference's
  own prediction cache;
* properties the method must have whatever the learner: the interval
  arithmetic redone with ``statistics.NormalDist``, rejection of the true
  support, B-hat against the exact mean pairwise gap, and empirical
  coverage of fresh responses.

Every check returns a list of messages; an empty list is a pass.  All
workloads are regression, so predictions are scalars (d = 1).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# The reference and the program solve the same normal equations in a
# different order; on these well-conditioned patches they agree to ~1e-12.
REF_RTOL = 1e-7
# Redoing closed-form interval arithmetic: only rounding separates the two.
ARITH_RTOL = 1e-9
# B-hat is a random estimate of the exact gap; allow this many standard errors.
B_HAT_SES = 4.0

_STD = NormalDist()


# -- the ridge reference ----------------------------------------------------

def patch_arrays(patches, N: int, M: int):
    """Row/feature index matrices and the (K, N), (K, M) membership masks."""
    rows = np.stack([p.rows for p in patches])
    feats = np.stack([p.features for p in patches])
    K = rows.shape[0]
    obs = np.zeros((K, N), dtype=bool)
    fm = np.zeros((K, M), dtype=bool)
    obs[np.arange(K)[:, None], rows] = True
    fm[np.arange(K)[:, None], feats] = True
    return rows, feats, obs, fm


def ridge_reference(X, Y, rows, feats, lam: float):
    """Fit every patch with one batched solve.

    Returns the dense coefficient matrix W (K, M), zero off the patch's
    features, and the intercepts b (K,), so the model of patch k predicts
    ``X @ W[k] + b[k]``.
    """
    K, m = feats.shape
    Xp = X[rows[:, :, None], feats[:, None, :]]          # (K, n, m)
    yp = Y[rows]                                          # (K, n)
    x_mean = Xp.mean(axis=1)
    y_mean = yp.mean(axis=1)
    Xc = Xp - x_mean[:, None, :]
    yc = yp - y_mean[:, None]
    Xt = Xc.transpose(0, 2, 1)
    gram = Xt @ Xc + lam * np.eye(m)
    coef = np.linalg.solve(gram, Xt @ yc[:, :, None])[:, :, 0]
    W = np.zeros((K, X.shape[1]))
    W[np.arange(K)[:, None], feats] = coef
    return W, y_mean - (x_mean * coef).sum(axis=1)


def predictions(W, b, X):
    """Cache of every patch model at every row of X, shape (K, rows)."""
    return W @ X.T + b[:, None]


def loo_loco(cache, obs, fm):
    """LOO prediction (N,) and LOCO predictions (N, M) as mask averages."""
    excl = (~obs).astype(float)
    weighted = excl * cache
    loo = weighted.sum(axis=0) / excl.sum(axis=0)
    keep = (~fm).astype(float)
    loco = (weighted.T @ keep) / (excl.T @ keep)
    return loo, loco


def occlusion_stats(Y, loo, loco):
    """Occlusion score mean and sd (ddof 1) of every feature."""
    scores = np.abs(Y[:, None] - loco) - np.abs(Y - loo)[:, None]
    return scores.mean(axis=0), scores.std(axis=0, ddof=1)


def loo_new(cache_new, obs):
    """Per-row LOO predictions at new points, shape (N, T)."""
    excl = (~obs).astype(float)
    return (excl.T @ cache_new) / excl.sum(axis=0)[:, None]


def jackknife_plus(Y, loo, cache_new, obs, alpha: float):
    """Jackknife+ bounds at new points from the reference's own ranks."""
    preds = loo_new(cache_new, obs)                     # (N, T)
    R = np.abs(Y - loo)[:, None]
    N = Y.shape[0]
    r_hi = math.ceil((1.0 - alpha) * (N + 1))
    r_lo = math.floor(alpha * (N + 1))
    T = preds.shape[1]
    hi = (np.sort(preds + R, axis=0)[r_hi - 1] if r_hi <= N
          else np.full(T, math.inf))
    lo = (np.sort(preds - R, axis=0)[r_lo - 1] if r_lo >= 1
          else np.full(T, -math.inf))
    return lo, hi


def conditional_target(W, b, fm, j: int, Z, Yz):
    """Importance of feature j for one fitted ensemble on fresh points."""
    keep = ~fm[:, j]
    full = Z @ W.mean(axis=0) + b.mean()
    occluded = Z @ W[keep].mean(axis=0) + b[keep].mean()
    return float((np.abs(Yz - occluded) - np.abs(Yz - full)).mean())


# -- checks -----------------------------------------------------------------

def _close(a, b, rtol: float, scale: float) -> bool:
    return abs(a - b) <= rtol * (abs(b) + scale)


def check_occlusion(features, mean, sd, N: int) -> list[str]:
    """Report mean/sd of every feature against reference values, to a
    tolerance relative to the mean's standard error."""
    out = []
    for f in features:
        j = f["j"]
        scale = sd[j] / math.sqrt(N)
        if not _close(f["mean"], mean[j], REF_RTOL, scale):
            out.append(f"feature {j}: mean {f['mean']!r} != reference {mean[j]!r}")
        if not _close(f["sd"], sd[j], REF_RTOL, scale):
            out.append(f"feature {j}: sd {f['sd']!r} != reference {sd[j]!r}")
    return out


def check_intervals(report, N: int) -> list[str]:
    """Redo every interval, p-value and decision with ``NormalDist``.

    lo/hi = mean -+ z(level/2) (sd/sqrt(N) + eps), eps = c B n ln N / N,
    p = 1 - Phi(T), reject iff T >= z(1 - level).
    """
    s = report["settings"]
    M = len(report["features"])
    level = report["alpha"] / M if report["bonferroni"] else report["alpha"]
    eps = s["buffer_c"] * report["b_hat"] * s["n"] * math.log(N) / N
    out = []
    if not _close(report["epsilon_n"], eps, ARITH_RTOL, 0.0):
        out.append(f"epsilon_n {report['epsilon_n']!r} != c*B*n*lnN/N = {eps!r}")
    z_half = _STD.inv_cdf(1.0 - level / 2.0)
    z_one = _STD.inv_cdf(1.0 - level)
    for f in report["features"]:
        j = f["j"]
        spread = f["sd"] / math.sqrt(N) + eps
        scale = abs(f["mean"]) + spread
        if not _close(f["level"], level, ARITH_RTOL, 0.0):
            out.append(f"feature {j}: level {f['level']!r} != {level!r}")
        for key, want in (("lo", f["mean"] - z_half * spread),
                          ("hi", f["mean"] + z_half * spread)):
            if not _close(f[key], want, ARITH_RTOL, scale):
                out.append(f"feature {j}: {key} {f[key]!r} != {want!r}")
        t = f["mean"] / spread
        if not _close(f["T"], t, ARITH_RTOL, 0.0):
            out.append(f"feature {j}: T {f['T']!r} != {t!r}")
        p = 1.0 - _STD.cdf(t)
        if abs(f["p"] - p) > 1e-12 + ARITH_RTOL * p:
            out.append(f"feature {j}: p {f['p']!r} != 1 - Phi(T) = {p!r}")
        if abs(t - z_one) > 1e-9 and f["reject"] != (t >= z_one):
            out.append(f"feature {j}: reject={f['reject']} but T={t:.6g}, "
                       f"z={z_one:.6g}")
    return out


def check_support(report, support) -> list[str]:
    """Every true-support feature must be rejected."""
    rejected = {f["j"] for f in report["features"] if f["reject"]}
    missed = sorted(set(support) - rejected)
    return [f"true-support features not rejected: {missed}"] if missed else []


def exact_pair_gap(cache, obs):
    """Exact mean |gap| over pairs of qualifying patches, and B-hat's
    standard error, for the estimator that averages ``pairs`` random pairs
    per row and then averages rows."""
    N = cache.shape[1]
    gap = np.empty(N)
    var = np.empty(N)
    for i in range(N):
        v = np.sort(cache[~obs[:, i], i])
        q = v.shape[0]
        w = 2.0 * np.arange(1, q + 1) - q - 1.0
        gap[i] = 2.0 * float(w @ v) / (q * (q - 1))
        # E|va - vb|^2 over distinct pairs is twice the sample variance.
        var[i] = max(2.0 * float(v.var(ddof=1)) - gap[i] ** 2, 0.0)
    return float(gap.mean()), var


def check_b_hat(b_hat: float, cache, obs, pairs: int = 10) -> list[str]:
    exact, var = exact_pair_gap(cache, obs)
    se = math.sqrt(float(var.sum()) / pairs) / var.shape[0]
    if abs(b_hat - exact) > B_HAT_SES * se:
        return [f"b_hat {b_hat!r} is {abs(b_hat - exact) / se:.1f} standard "
                f"errors from the exact pair gap {exact!r}"]
    return []


def check_bounds(lo, hi, ref_lo, ref_hi, scale: float) -> list[str]:
    """Jackknife+ bounds of every new point against the reference."""
    out = []
    for name, got, want in (("lo", lo, ref_lo), ("hi", hi, ref_hi)):
        bad = np.nonzero(np.abs(got - want) > REF_RTOL * (np.abs(want) + scale))[0]
        if bad.size:
            t = int(bad[0])
            out.append(f"{bad.size} new points: {name} differs from the "
                       f"reference, first at row {t}: {got[t]!r} != {want[t]!r}")
    return out


def check_predictive_coverage(lo, hi, y, alpha: float) -> list[str]:
    """Fresh responses: coverage >= 1 - 2 alpha - 3 binomial SEs."""
    T = y.shape[0]
    p = 1.0 - 2.0 * alpha
    floor = p - 3.0 * math.sqrt(p * (1.0 - p) / T)
    cov = float(((lo <= y) & (y <= hi)).mean())
    return [] if cov >= floor else [f"coverage {cov:.4f} below {floor:.4f}"]


def check_coverage_rows(rows, targets, centres) -> list[str]:
    """Per replicate: conditional target and interval centre agree with
    the reference, to a tolerance relative to the row's own standard error
    and width, and the row's fields are consistent."""
    out = []
    for row, target, centre in zip(rows, targets, centres, strict=True):
        r, width = row["rep"], row["hi"] - row["lo"]
        if not _close(row["target"], target, REF_RTOL, row["target_se"]):
            out.append(f"rep {r}: target {row['target']!r} != reference {target!r}")
        mid = 0.5 * (row["lo"] + row["hi"])
        if not _close(mid, centre, REF_RTOL, width):
            out.append(f"rep {r}: centre {mid!r} != reference {centre!r}")
        if row["covered"] != (row["lo"] <= row["target"] <= row["hi"]):
            out.append(f"rep {r}: covered flag disagrees with lo/target/hi")
        if not _close(row["width"], width, ARITH_RTOL, 0.0):
            out.append(f"rep {r}: width != hi - lo")
    return out


def check_fits(fits_per_ensemble, K: int, fits_in_inference: int) -> list[str]:
    """One fit per patch in training and none afterwards."""
    out = [f"train_ensemble made {f} fits for K={K}"
           for f in fits_per_ensemble if f != K]
    if fits_in_inference:
        out.append(f"{fits_in_inference} fits during inference")
    return out

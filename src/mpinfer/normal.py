"""Standard normal CDF and quantile function.

The quantile (inverse CDF) is computed with Acklam's rational
approximation followed by one Halley refinement step against the
erfc-based CDF.  The refined result is accurate to well below 1e-13
absolute error everywhere in (0, 1), comfortably inside the 1e-10
contract the inference code relies on.

Every erfc is the platform's libm ``math.erfc``, called once per element
(and exactly once per draw in the Halley step, on whichever tail avoids
cancellation), so the Gaussian stream built on :func:`norm_ppf` does not
depend on a numpy erfc approximation.  The quantile works in place, so
beside p and its result it holds about three arrays of p's size;
``rng.standard_normal`` calls it on fixed blocks, writing into its output.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["norm_cdf", "norm_sf", "norm_ppf"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Acklam rational approximation coefficients.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425


def _erfc(x: np.ndarray) -> np.ndarray:
    """libm erfc of every element of a float array, same shape; the
    memoryview hands math.erfc Python floats without building a list."""
    return np.fromiter(map(math.erfc, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def norm_cdf(x):
    """Standard normal CDF, exact to machine precision via erfc."""
    if np.isscalar(x):
        return 0.5 * math.erfc(-float(x) / _SQRT2)
    x = np.asarray(x, dtype=float)
    return 0.5 * _erfc(-x / _SQRT2)


def norm_sf(x):
    """Upper tail probability 1 - CDF(x), computed without cancellation."""
    if np.isscalar(x):
        return 0.5 * math.erfc(float(x) / _SQRT2)
    x = np.asarray(x, dtype=float)
    return 0.5 * _erfc(x / _SQRT2)


def _horner(x: np.ndarray, coefs: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """((c0 x + c1) x + ...) x + c_last, in one array (``out`` if given)."""
    acc = np.multiply(x, coefs[0], out=out)
    for c in coefs[1:-1]:
        acc += c
        acc *= x
    acc += coefs[-1]
    return acc


def _acklam(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Acklam's approximation at 1-D p in (0, 1): the central formula on
    every element, then the two tails overwritten through their masks."""
    r = p - 0.5
    r *= r
    den = _horner(r, _B + (1.0,))
    z = _horner(r, _A, out)
    z *= np.subtract(p, 0.5, out=r)
    z /= den
    lo, hi = p < _P_LOW, p > 1.0 - _P_LOW
    for tail, p_tail, sign in ((lo, p[lo], 1.0), (hi, 1.0 - p[hi], -1.0)):
        q = np.sqrt(-2.0 * np.log(p_tail))
        z[tail] = _horner(q, _C) / _horner(q, _D + (1.0,)) * sign
    return z


def _halley(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One Halley step on the 1-D estimate z of norm_ppf(p), in place:
    e = Phi(z) - p, u = e * sqrt(2*pi) * exp(z^2/2).  The CDF error is
    evaluated on whichever tail avoids cancellation (1 - p is exact for
    p >= 0.5), one erfc per draw, and the exp factor switches to log space
    where z^2/2 would overflow.  ``a`` holds each temporary in turn."""
    upper = p > 0.5
    a = np.where(upper, z, -z)
    e = _erfc(np.divide(a, _SQRT2, out=a))
    e *= 0.5
    np.copyto(a, p)                                  # a = where(upper, 1 - p, p)
    e -= np.subtract(1.0, p, out=a, where=upper)
    np.negative(e, out=e, where=upper)
    t = np.divide(np.multiply(z, z, out=a), 2.0, out=a)
    big = t > 700.0
    if big.any():
        with np.errstate(divide="ignore"):
            u_big = np.sign(e[big]) * np.exp(
                np.log(np.abs(e[big])) + math.log(_SQRT_2PI) + t[big])
    u = np.multiply(e, _SQRT_2PI, out=e)
    u *= np.exp(np.minimum(t, 700.0, out=t), out=t)
    if big.any():
        u[big] = u_big
    a = np.multiply(z, u, out=a)
    a /= 2.0
    a += 1.0
    z -= np.divide(u, a, out=u)
    return z


def norm_ppf(p, out: np.ndarray | None = None):
    """Quantile of the standard normal distribution.

    Accepts a scalar or array of probabilities in [0, 1]; returns -inf/+inf
    at the endpoints.  Raises ValueError outside [0, 1], NaN included.
    ``out``, a C-contiguous float array of p's shape, receives the result.
    """
    scalar = np.isscalar(p)
    p_arr = np.asarray(p, dtype=float)
    if not ((p_arr >= 0.0) & (p_arr <= 1.0)).all():
        raise ValueError("probabilities must lie in [0, 1]")

    if out is not None and not (out.flags.c_contiguous and out.shape == p_arr.shape):
        raise ValueError("out must be a C-contiguous array of p's shape")
    z = np.empty(p_arr.shape) if out is None else out
    flat_p, flat_z = p_arr.reshape(-1), z.reshape(-1)
    interior = (flat_p > 0.0) & (flat_p < 1.0)
    if interior.all():
        _halley(flat_p, _acklam(flat_p, flat_z))
    else:
        flat_z[flat_p == 0.0] = -np.inf
        flat_z[flat_p == 1.0] = np.inf
        pi = flat_p[interior]
        flat_z[interior] = _halley(pi, _acklam(pi))

    if scalar:
        return float(z)
    return z

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm as scipy_norm

from mpinfer import normal, rng
from mpinfer.normal import norm_cdf, norm_ppf, norm_sf
from mpinfer.rng import generator, standard_normal, uniform_open

# Tabulated two-sided quantiles (alpha, z_{alpha/2}).
TABULATED = [
    (0.2, 1.2815515655446004),
    (0.1, 1.6448536269514722),
    (0.05, 1.959963984540054),
    (0.01, 2.5758293035489004),
    (0.001, 3.2905267314919255),
]


@pytest.mark.parametrize("alpha,z", TABULATED)
def test_tabulated_quantiles(alpha, z):
    assert norm_ppf(1.0 - alpha / 2.0) == pytest.approx(z, abs=1e-10)
    assert norm_ppf(alpha / 2.0) == pytest.approx(-z, abs=1e-10)


def test_ppf_matches_independent_reference_on_grid():
    ps = np.linspace(1e-9, 1.0 - 1e-9, 5001)
    got = norm_ppf(ps)
    want = scipy_norm.ppf(ps)
    assert np.max(np.abs(got - want)) < 1e-12


def test_ppf_deep_tails():
    for p in (1e-14, 1e-10, 1e-5, 1 - 1e-5, 1 - 1e-10, 1 - 1e-14):
        assert norm_ppf(p) == pytest.approx(scipy_norm.ppf(p), abs=1e-10)


def test_ppf_endpoints_and_median():
    assert norm_ppf(0.0) == -np.inf
    assert norm_ppf(1.0) == np.inf
    assert norm_ppf(0.5) == 0.0


def test_ppf_rejects_out_of_range():
    with pytest.raises(ValueError):
        norm_ppf(-0.1)
    with pytest.raises(ValueError):
        norm_ppf(np.array([0.2, 1.3]))


@pytest.mark.parametrize("p", [np.nan, np.array([np.nan, 0.5, np.nan]),
                               np.array([[0.5], [np.nan]])])
def test_ppf_rejects_nan(p):
    with pytest.raises(ValueError):
        norm_ppf(p)


def test_cdf_sf_round_trip():
    xs = np.linspace(-8, 8, 1001)
    assert np.max(np.abs(norm_cdf(xs) + norm_sf(xs) - 1.0)) < 1e-15
    assert np.max(np.abs(norm_cdf(norm_ppf(norm_cdf(xs))) - norm_cdf(xs))) < 1e-12


def test_cdf_scalar_matches_reference():
    for x in (-5.0, -1.3333333333333333, 0.0, 0.5, 2.7):
        assert norm_cdf(x) == pytest.approx(scipy_norm.cdf(x), abs=1e-15)
        assert norm_sf(x) == pytest.approx(scipy_norm.sf(x), abs=1e-15)


# -- stream guard ----------------------------------------------------------
# The Gaussian stream (simgen's data, every test's toy data) is norm_ppf of
# open uniforms, so the exact bits matter.  The reference is the former
# formula: two frompyfunc libm erfc calls per element, one kept by np.where.

_erfc_obj = np.frompyfunc(math.erfc, 1, 1)


def ref_cdf(x):
    return 0.5 * _erfc_obj(-x / math.sqrt(2.0)).astype(float)


def ref_sf(x):
    return 0.5 * _erfc_obj(x / math.sqrt(2.0)).astype(float)


def ref_ppf(p):
    z = np.empty_like(p)
    z[p == 0.0] = -np.inf
    z[p == 1.0] = np.inf
    interior = (p > 0.0) & (p < 1.0)
    pi = p[interior]
    zi = normal._acklam(pi)
    upper = pi > 0.5
    e = np.where(upper, ref_sf(zi) - (1.0 - pi), ref_cdf(zi) - pi)
    e = np.where(upper, -e, e)
    t = zi * zi / 2.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = np.where(
            t <= 700.0,
            e * math.sqrt(2.0 * math.pi) * np.exp(np.minimum(t, 700.0)),
            np.sign(e) * np.exp(np.log(np.abs(e)) + math.log(math.sqrt(2.0 * math.pi)) + t),
        )
    z[interior] = zi - u / (1.0 + zi * u / 2.0)
    return z


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_ppf_bit_equal_to_reference_on_open_uniforms():
    p = uniform_open(generator(5, "ppf-guard"), (1000, 120))
    assert_bits_equal(norm_ppf(p), ref_ppf(p.ravel()).reshape(p.shape))


def test_ppf_bit_equal_to_reference_in_tails_and_at_endpoints():
    p = np.concatenate([
        [0.0, 1.0, 5e-324, 1e-323, 2.2e-308, 0.5, np.nextafter(0.5, 0.0),
         np.nextafter(0.5, 1.0), 0.02425, 1.0 - 0.02425, 1.0 - 2.0 ** -53],
        np.logspace(-323.5, -1.0, 4000), 1.0 - np.logspace(-16.0, -1.0, 4000),
    ])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = norm_ppf(p)
    assert_bits_equal(got, ref_ppf(p))
    assert [norm_ppf(float(q)) for q in p[:11]] == ref_ppf(p[:11]).tolist()


def test_cdf_sf_bit_equal_to_reference():
    x = np.concatenate([np.linspace(-40.0, 40.0, 100_001),
                        [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300]])
    assert_bits_equal(norm_cdf(x), ref_cdf(x))
    assert_bits_equal(norm_sf(x), ref_sf(x))
    grid = x[:1000].reshape(10, 100)
    assert_bits_equal(norm_cdf(grid), ref_cdf(grid))
    # a 0-d array is an array of one element, not an error
    assert norm_cdf(np.array(-1.5)) == norm_cdf(-1.5)
    assert norm_sf(np.array(-1.5)) == norm_sf(-1.5)


def test_standard_normal_stream_is_pinned():
    # recorded from the two-erfc formula with glibc's libm; another libm's
    # erfc may differ in the last bit
    z = standard_normal(generator(2024, "pinned"), 6)
    assert z.tolist() == [0.3134709104251143, -0.3136947974469717, -1.2119467990135881,
                          -1.1485336019227566, -1.2954900520951884, -0.18927343274744432]
    z = standard_normal(generator(2024, "pinned"), (1000, 50))
    assert hashlib.sha256(z.tobytes()).hexdigest() == (
        "786b33661bd7aad520808f65f8f5ed817c328a5c3e382eacbac009b3a7ae9bd4")


# -- blocked draws ---------------------------------------------------------
# standard_normal fills its output rng._BLOCK draws at a time; the blocks
# must not change a bit, a type, a shape or the generator's position.

@pytest.mark.parametrize("size", [None, (), 0, 1, 6, 7, 8, 15, (3, 5), (1000, 50)])
def test_blocked_draws_equal_one_transform(monkeypatch, size):
    want_gen, got_gen = generator(31, "blocks"), generator(31, "blocks")
    want = norm_ppf(uniform_open(want_gen, size))
    monkeypatch.setattr(rng, "_BLOCK", 7)
    got = standard_normal(got_gen, size)
    assert type(got) is type(want)
    if isinstance(want, float):
        assert got == want
    else:
        assert_bits_equal(got, want)
    assert_bits_equal(standard_normal(got_gen, 9), norm_ppf(uniform_open(want_gen, 9)))


def test_blocked_draws_hold_a_few_blocks():
    out_bytes, block_bytes = 10_000 * 50 * 8, rng._BLOCK * 8
    gen = generator(3, "memory")
    tracemalloc.start()
    try:
        standard_normal(gen, (10_000, 50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out_bytes + 4 * block_bytes


def test_ppf_writes_into_out():
    p = uniform_open(generator(8, "out"), (4, 6))
    out = np.empty((4, 6))
    assert norm_ppf(p, out=out) is out
    assert_bits_equal(out, norm_ppf(p))
    with pytest.raises(ValueError):
        norm_ppf(p, out=np.empty((6, 4)).T)
